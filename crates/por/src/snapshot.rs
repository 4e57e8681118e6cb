//! Durable checkpoints: a versioned, checksummed snapshot of an
//! interrupted exploration.
//!
//! A budgeted or interrupted run dies holding exactly three things worth
//! keeping: the *frontier* (the unexplored remainders of its DFS frames,
//! already serializable as [`ForkPoint`]s — the same continuation
//! relocation the work-stealing engine trades between threads), the
//! *visited set* (fingerprints of states already counted and checked),
//! and the *bookkeeping* a final verdict needs (deterministic metric
//! counts). [`Snapshot`] packages those plus
//! run metadata (engine label, configuration hash, program hash) so a
//! later process can refuse to resume against the wrong program or
//! configuration instead of silently producing garbage.
//!
//! ## On-disk format
//!
//! Little-endian binary: a fixed header — magic `FTCKPT`, format
//! version, payload length, FNV-1a-64 checksum of the payload — followed
//! by the payload. The reader validates in order: magic, version,
//! length, checksum; only then does it decode. Every failure is a typed
//! [`SnapshotError`]; a torn or bit-flipped file is *rejected*, never
//! half-loaded.
//!
//! ## Atomic writes
//!
//! [`Snapshot::write_atomic`] writes to a temporary file in the target
//! directory, `fsync`s it, and `rename`s it over the destination (then
//! best-effort-syncs the directory). POSIX rename is atomic, so a crash
//! — even `kill -9` mid-write — leaves either the old checkpoint or the
//! new one, never a readable-but-torn hybrid. The checksum is belt and
//! suspenders on top: if a filesystem reorders the rename past the data
//! sync, the stale bytes fail validation instead of resuming corrupt.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use ftobs::{MetricsSnapshot, ProcSteps, GAUGES, HIST_BUCKETS, MAX_PROCS, METRICS};
use wbmem::{Footprint, FootprintKind, ProcId, RegId, SchedElem};

use crate::fork::ForkPoint;
use crate::sleep::SleepSet;

/// File magic, first bytes of every checkpoint.
pub const MAGIC: [u8; 6] = *b"FTCKPT";

/// Current format version; readers reject any other. The metrics section
/// names its counters and gauges (see `enc_metrics`), so
/// adding one to `ftobs` is not a format change: an older file simply
/// does not mention it and it decodes as 0. Removing or renaming one is —
/// the reader refuses a name it does not know rather than drop a value a
/// resume would have summed — and so is anything that changes what the
/// stored fingerprints mean. v6 is the first version with the named
/// section (v2–v4 each tracked a positional counter array; v5 changed the
/// state fingerprint function). `solo_retries` left `ftobs` without a bump:
/// zeros are never written and nothing ever incremented it on a recorder
/// that reaches a checkpoint, so no v6 file names it. v7 dropped the RMR
/// count, from the named counters and from each per-process slot, which
/// went from (fences, RMRs, crashes) to (fences, crashes). v8 dropped the
/// 8-byte trace span id from each fork point, v9 the termination graph
/// (edges and terminals) after the visited set, and with it the
/// `watchdog_trips` counter.
pub const VERSION: u32 = 9;

/// Why a checkpoint could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Underlying I/O failure (message carries the OS error; the error
    /// itself is not kept because `io::Error` is neither `Clone` nor
    /// `PartialEq`).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    BadVersion(u32),
    /// The file is shorter than its header claims (torn write).
    Truncated,
    /// The payload checksum does not match (bit rot or a torn write that
    /// happened to preserve the length).
    ChecksumMismatch,
    /// The payload decoded inconsistently (which field broke).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            SnapshotError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "checkpoint file is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "checkpoint payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Identity of the run a checkpoint belongs to. A resume validates all
/// three fields before touching the frontier: the engine label (frontier
/// semantics differ per engine), a hash of the checking configuration
/// (properties, crash budget, reorder bound), and a hash of the program's
/// initial state (resuming lock A's frontier on lock B would silently
/// verify neither).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// `Engine::label()` of the interrupted run.
    pub engine: String,
    /// Hash of the check configuration (computed by the checker).
    pub config_hash: u64,
    /// Fingerprint of the root state, crash bound applied.
    pub program_hash: u128,
}

/// The scalar exploration counts accumulated before the interrupt; a
/// resumed run adds its own on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaseCounts {
    /// Distinct states visited (and property-checked) so far.
    pub states: u64,
    /// Transitions executed so far.
    pub transitions: u64,
    /// Terminal (all-done) states found so far.
    pub terminal_states: u64,
    /// Sleep-set/ample suppressions so far (DPOR engines).
    pub sleep_hits: u64,
}

/// Everything an interrupted exploration needs to continue elsewhere;
/// see the module docs.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Run identity, validated on resume.
    pub meta: RunMeta,
    /// Counts accumulated before the interrupt.
    pub base: BaseCounts,
    /// Metrics accumulated before the interrupt; a resume merges its own
    /// snapshot into this, and the deterministic counters sum to the
    /// uninterrupted run's because the executed step multiset partitions
    /// exactly between the two runs.
    pub metrics: MetricsSnapshot,
    /// The unexplored frontier, as replayable continuations.
    pub forks: Vec<ForkPoint>,
    /// Fingerprints of every state already counted, sorted (the export
    /// is shard-order-independent). Pre-seeding the resumed run's table
    /// with these keeps states counted exactly once across both runs.
    pub visited: Vec<u128>,
}

// --- encoding primitives -------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn elem(&mut self, e: SchedElem) {
        self.u32(e.proc.0);
        match e.reg {
            Some(r) => {
                self.u8(1);
                self.u32(r.0);
            }
            None => {
                self.u8(0);
                self.u32(0);
            }
        }
        self.u8(u8::from(e.crash));
    }
    fn footprint(&mut self, fp: Footprint) {
        self.u32(fp.proc.0);
        match fp.kind {
            FootprintKind::Local => {
                self.u8(0);
                self.u32(0);
            }
            FootprintKind::Read(r) => {
                self.u8(1);
                self.u32(r.0);
            }
            FootprintKind::Write(r) => {
                self.u8(2);
                self.u32(r.0);
            }
            FootprintKind::Commit(r) => {
                self.u8(3);
                self.u32(r.0);
            }
            FootprintKind::Return => {
                self.u8(4);
                self.u32(0);
            }
            FootprintKind::Crash { drains } => {
                self.u8(5);
                self.u32(u32::from(drains));
            }
        }
    }
    fn elems(&mut self, es: &[SchedElem]) {
        self.u32(es.len() as u32);
        for &e in es {
            self.elem(e);
        }
    }
    fn pairs(&mut self, len: usize, ps: impl Iterator<Item = (SchedElem, Footprint)>) {
        self.u32(len as u32);
        for (e, fp) in ps {
            self.elem(e);
            self.footprint(fp);
        }
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Corrupt("unexpected end of payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        if n > 1 << 16 {
            return Err(SnapshotError::Corrupt("string length"));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string encoding"))
    }
    /// Guard a claimed element count against the bytes actually left, so
    /// a corrupt length prefix fails fast instead of attempting a huge
    /// allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt("length prefix"));
        }
        Ok(n)
    }
    fn elem(&mut self) -> Result<SchedElem, SnapshotError> {
        let proc = ProcId(self.u32()?);
        let has_reg = self.u8()?;
        let reg = self.u32()?;
        let crash = self.u8()?;
        if has_reg > 1 || crash > 1 {
            return Err(SnapshotError::Corrupt("schedule element flags"));
        }
        Ok(SchedElem {
            proc,
            reg: (has_reg == 1).then_some(RegId(reg)),
            crash: crash == 1,
        })
    }
    fn footprint(&mut self) -> Result<Footprint, SnapshotError> {
        let proc = ProcId(self.u32()?);
        let tag = self.u8()?;
        let arg = self.u32()?;
        let kind = match tag {
            0 => FootprintKind::Local,
            1 => FootprintKind::Read(RegId(arg)),
            2 => FootprintKind::Write(RegId(arg)),
            3 => FootprintKind::Commit(RegId(arg)),
            4 => FootprintKind::Return,
            5 => FootprintKind::Crash { drains: arg == 1 },
            _ => return Err(SnapshotError::Corrupt("footprint kind")),
        };
        Ok(Footprint { proc, kind })
    }
    fn elems(&mut self) -> Result<Vec<SchedElem>, SnapshotError> {
        let n = self.count(10)?;
        (0..n).map(|_| self.elem()).collect()
    }
    fn pairs(&mut self) -> Result<Vec<(SchedElem, Footprint)>, SnapshotError> {
        let n = self.count(19)?;
        (0..n)
            .map(|_| Ok((self.elem()?, self.footprint()?)))
            .collect()
    }
    fn u64s_exact(&mut self, expect: usize, what: &'static str) -> Result<Vec<u64>, SnapshotError> {
        let n = self.count(8)?;
        if n != expect {
            return Err(SnapshotError::Corrupt(what));
        }
        (0..n).map(|_| self.u64()).collect()
    }
}

/// FNV-1a over the payload: dependency-free, and plenty against torn
/// writes and bit rot (adversarial corruption is out of scope — the
/// checkpoint sits next to the checker's own binary).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The name-keyed slot kinds of the metrics section; an entry's kind tag
/// is its index here: 0 a counter, 1 a gauge. (Tags 2 and 3 were a phase
/// timer's totals, which no run ever moved off zero and no file holds.)
const SLOT_KINDS: u8 = 2;

fn slot_names(kind: u8) -> Vec<&'static str> {
    match kind {
        0 => METRICS.iter().map(|m| m.name()).collect(),
        _ => GAUGES.iter().map(|g| g.name()).collect(),
    }
}

fn slots(m: &mut MetricsSnapshot, kind: u8) -> &mut [u64] {
    match kind {
        0 => &mut m.counters,
        _ => &mut m.gauges,
    }
}

/// Counters and gauges go out as a count-prefixed list of
/// `(kind tag, name, value)` with zero values left out; the per-process
/// slots and the two histograms follow, length-prefixed.
fn enc_metrics(e: &mut Enc, m: &MetricsSnapshot) {
    let mut m = *m; // a copy, so `slots` serves both directions
    let mut named = Vec::new();
    for kind in 0..SLOT_KINDS {
        for (name, &v) in slot_names(kind).into_iter().zip(slots(&mut m, kind).iter()) {
            if v != 0 {
                named.push((kind, name, v));
            }
        }
    }
    e.u32(named.len() as u32);
    for (kind, name, v) in named {
        e.u8(kind);
        e.str(name);
        e.u64(v);
    }
    e.u32(m.per_proc.len() as u32);
    for p in &m.per_proc {
        e.u64(p.fences);
        e.u64(p.crashes);
    }
    e.u64s(&m.buffer_depth.buckets);
    e.u64s(&m.frame_depth.buckets);
}

/// A name the file does not mention decodes as 0. A name this build does
/// not know, one given twice, or an explicit zero is refused: a resume
/// sums these values, so none may be dropped silently.
fn dec_metrics(d: &mut Dec<'_>) -> Result<MetricsSnapshot, SnapshotError> {
    let mut m = MetricsSnapshot::default();
    let names: Vec<_> = (0..SLOT_KINDS).map(slot_names).collect();
    for _ in 0..d.count(13)? {
        let kind = d.u8()?;
        if kind >= SLOT_KINDS {
            return Err(SnapshotError::Corrupt("metric kind"));
        }
        let name = d.str()?;
        let value = d.u64()?;
        let i = names[usize::from(kind)]
            .iter()
            .position(|&n| n == name)
            .ok_or(SnapshotError::Corrupt("unknown metric name"))?;
        let slot = &mut slots(&mut m, kind)[i];
        if value == 0 {
            return Err(SnapshotError::Corrupt("zero metric value"));
        }
        if *slot != 0 {
            return Err(SnapshotError::Corrupt("duplicate metric name"));
        }
        *slot = value;
    }
    let np = d.count(16)?;
    if np != MAX_PROCS {
        return Err(SnapshotError::Corrupt("per-proc slot count"));
    }
    for p in &mut m.per_proc {
        *p = ProcSteps {
            fences: d.u64()?,
            crashes: d.u64()?,
        };
    }
    m.buffer_depth
        .buckets
        .copy_from_slice(&d.u64s_exact(HIST_BUCKETS, "histogram bucket count")?);
    m.frame_depth
        .buckets
        .copy_from_slice(&d.u64s_exact(HIST_BUCKETS, "histogram bucket count")?);
    Ok(m)
}

impl Snapshot {
    /// Serialize to the on-disk byte format (header + payload).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc { buf: Vec::new() };
        e.str(&self.meta.engine);
        e.u64(self.meta.config_hash);
        e.u128(self.meta.program_hash);
        e.u64(self.base.states);
        e.u64(self.base.transitions);
        e.u64(self.base.terminal_states);
        e.u64(self.base.sleep_hits);
        enc_metrics(&mut e, &self.metrics);
        e.u32(self.forks.len() as u32);
        for f in &self.forks {
            e.elems(&f.path);
            e.pairs(f.sleep.len(), f.sleep.iter());
            e.pairs(f.taken.len(), f.taken.iter().copied());
            e.elems(&f.choices);
            e.elems(&f.excluded);
            e.u32(f.remaining);
        }
        e.u64(self.visited.len() as u64);
        for &fp in &self.visited {
            e.u128(fp);
        }

        let payload = e.buf;
        let mut out = Vec::with_capacity(payload.len() + 26);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode from the on-disk byte format, validating magic, version,
    /// length, and checksum before touching the payload.
    ///
    /// # Errors
    ///
    /// Any validation or decode failure, as a typed [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let rest = &bytes[MAGIC.len()..];
        if rest.len() < 20 {
            return Err(SnapshotError::Truncated);
        }
        let version = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let payload_len = u64::from_le_bytes(rest[4..12].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let payload = &rest[20..];
        if payload.len() != payload_len {
            return Err(SnapshotError::Truncated);
        }
        if fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut d = Dec {
            buf: payload,
            pos: 0,
        };
        let engine = d.str()?;
        let config_hash = d.u64()?;
        let program_hash = d.u128()?;
        let base = BaseCounts {
            states: d.u64()?,
            transitions: d.u64()?,
            terminal_states: d.u64()?,
            sleep_hits: d.u64()?,
        };
        let metrics = dec_metrics(&mut d)?;
        let nforks = d.count(24)?;
        let mut forks = Vec::with_capacity(nforks);
        for _ in 0..nforks {
            let path = d.elems()?;
            let mut sleep = SleepSet::new();
            for (e, fp) in d.pairs()? {
                sleep.insert(e, fp);
            }
            let taken = d.pairs()?;
            let choices = d.elems()?;
            let excluded = d.elems()?;
            let remaining = d.u32()?;
            forks.push(ForkPoint {
                path,
                sleep,
                taken,
                choices,
                excluded,
                remaining,
            });
        }
        let nv = d.u64()? as usize;
        if nv.saturating_mul(16) > payload.len() - d.pos {
            return Err(SnapshotError::Corrupt("visited count"));
        }
        let visited = (0..nv).map(|_| d.u128()).collect::<Result<Vec<_>, _>>()?;
        if d.pos != payload.len() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(Snapshot {
            meta: RunMeta {
                engine,
                config_hash,
                program_hash,
            },
            base,
            metrics,
            forks,
            visited,
        })
    }

    /// Write the snapshot to `path` atomically: temp file in the same
    /// directory, `fsync`, `rename`, best-effort directory sync. Returns
    /// the byte size written. A crash at any point leaves `path` either
    /// absent, the previous checkpoint, or the complete new one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] with the failing operation's message.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, SnapshotError> {
        let bytes = self.to_bytes();
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(format!("mkdir: {e}")))?;
        }
        let file_name = path
            .file_name()
            .ok_or_else(|| SnapshotError::Io("checkpoint path has no file name".into()))?;
        let mut tmp = path.to_path_buf();
        tmp.set_file_name({
            let mut n = std::ffi::OsString::from(".");
            n.push(file_name);
            n.push(".tmp");
            n
        });
        let mut f =
            fs::File::create(&tmp).map_err(|e| SnapshotError::Io(format!("create temp: {e}")))?;
        f.write_all(&bytes)
            .map_err(|e| SnapshotError::Io(format!("write: {e}")))?;
        f.sync_all()
            .map_err(|e| SnapshotError::Io(format!("fsync: {e}")))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(format!("rename: {e}")))?;
        // Make the rename itself durable where the platform allows
        // opening a directory; failure here cannot tear the file, only
        // delay its durability, so it is not fatal.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }

    /// Read and validate a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read; otherwise any
    /// validation error from [`Snapshot::from_bytes`].
    pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(format!("read: {e}")))?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftobs::{Gauge, Metric};

    fn sample() -> Snapshot {
        let mut sleep = SleepSet::new();
        sleep.insert(
            SchedElem::op(ProcId(1)),
            Footprint {
                proc: ProcId(1),
                kind: FootprintKind::Read(RegId(2)),
            },
        );
        let mut metrics = MetricsSnapshot::default();
        metrics.counters[Metric::States as usize] = 41;
        metrics.counters[Metric::Fences as usize] = 7;
        metrics.counters[Metric::COUNT - 1] = u64::MAX;
        metrics.per_proc[1].fences = 7;
        metrics.buffer_depth.buckets[2] = 5;
        metrics.frame_depth.buckets[9] = 3;
        metrics.gauges[Gauge::MaxFrontier as usize] = 12;
        metrics.gauges[Gauge::MaxBufferDepth as usize] = 2;
        Snapshot {
            meta: RunMeta {
                engine: "dpor".into(),
                config_hash: 0xdead_beef,
                program_hash: 0x1234_5678_9abc_def0_1111_2222_3333_4444,
            },
            base: BaseCounts {
                states: 41,
                transitions: 97,
                terminal_states: 3,
                sleep_hits: 11,
            },
            metrics,
            forks: vec![ForkPoint {
                path: vec![
                    SchedElem::op(ProcId(0)),
                    SchedElem::commit(ProcId(0), RegId(3)),
                    SchedElem::crash(ProcId(1)),
                ],
                sleep,
                taken: vec![(
                    SchedElem::op(ProcId(0)),
                    Footprint {
                        proc: ProcId(0),
                        kind: FootprintKind::Crash { drains: true },
                    },
                )],
                choices: vec![SchedElem::op(ProcId(1)), SchedElem::op(ProcId(0))],
                excluded: vec![SchedElem::commit(ProcId(1), RegId(0))],
                remaining: 5,
            }],
            visited: vec![0, 1, u128::MAX, 0x42 << 64],
        }
    }

    /// Full (not just deterministic-projection) metric equality.
    fn assert_all_slots_eq(a: &MetricsSnapshot, b: &MetricsSnapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.per_proc, b.per_proc);
        assert_eq!(a.buffer_depth, b.buffer_depth);
        assert_eq!(a.frame_depth, b.frame_depth);
    }

    /// Decode a metrics section whose named list is `entries` (kind tag,
    /// name, value) and whose fixed tail is all zero.
    fn decode_named(entries: &[(u8, &str, u64)]) -> Result<MetricsSnapshot, SnapshotError> {
        let mut zero = Enc { buf: Vec::new() };
        enc_metrics(&mut zero, &MetricsSnapshot::default());
        let mut e = Enc { buf: Vec::new() };
        e.u32(entries.len() as u32);
        for &(kind, name, value) in entries {
            e.u8(kind);
            e.str(name);
            e.u64(value);
        }
        // The all-zero section is an empty list (a zero count) + the tail.
        e.buf.extend_from_slice(&zero.buf[4..]);
        let mut d = Dec {
            buf: &e.buf,
            pos: 0,
        };
        let m = dec_metrics(&mut d)?;
        assert_eq!(d.pos, e.buf.len(), "section fully consumed");
        Ok(m)
    }

    #[test]
    fn a_name_the_section_omits_decodes_as_zero() {
        let got = decode_named(&[
            (0, "fences", 7),
            (1, "max_depth", 3),
            (1, "max_frontier", 2),
        ])
        .unwrap();
        let mut want = MetricsSnapshot::default();
        want.counters[Metric::Fences as usize] = 7;
        want.gauges[Gauge::MaxDepth as usize] = 3;
        want.gauges[Gauge::MaxFrontier as usize] = 2;
        assert_all_slots_eq(&got, &want);
    }

    #[test]
    fn unknown_repeated_and_zero_metric_entries_are_refused() {
        let refused = |entries: &[(u8, &str, u64)]| match decode_named(entries) {
            Err(SnapshotError::Corrupt(what)) => what,
            other => panic!("{entries:?} must be refused as corrupt, got {other:?}"),
        };
        // A counter this build does not have (older ones did: a file they
        // wrote with a nonzero `slept_probes` is refused, one with a zero
        // never named it)…
        assert_eq!(refused(&[(0, "workers_lost", 6)]), "unknown metric name");
        assert_eq!(refused(&[(0, "slept_probes", 3)]), "unknown metric name");
        // …a known name under the wrong kind, or an unknown kind (2 and 3
        // were the phase timer's, which never wrote an entry)…
        assert_eq!(refused(&[(1, "states", 1)]), "unknown metric name");
        assert_eq!(refused(&[(2, "explore", 9)]), "metric kind");
        assert_eq!(refused(&[(3, "explore", 1)]), "metric kind");
        assert_eq!(refused(&[(4, "states", 1)]), "metric kind");
        // …the same slot twice (a resume would sum only one of them)…
        assert_eq!(
            refused(&[(0, "states", 1), (0, "fences", 2), (0, "states", 1)]),
            "duplicate metric name"
        );
        // …and a zero, which the writer leaves out.
        assert_eq!(refused(&[(0, "states", 0)]), "zero metric value");
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let got = Snapshot::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert_eq!(got.meta, s.meta);
        assert_eq!(got.base, s.base);
        assert_eq!(got.visited, s.visited);
        assert_eq!(got.forks.len(), 1);
        let (a, b) = (&got.forks[0], &s.forks[0]);
        assert_eq!(a.path, b.path);
        assert_eq!(a.sleep, b.sleep);
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.excluded, b.excluded);
        assert_eq!(a.remaining, b.remaining);
        assert_all_slots_eq(&got.metrics, &s.metrics);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 6, 9, 17, 25, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let clean = sample().to_bytes();
        // Flip one byte in the payload: checksum catches it.
        let mut torn = clean.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        assert_eq!(
            Snapshot::from_bytes(&torn).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        // Flip the stored checksum itself: also a mismatch.
        let mut badsum = clean.clone();
        badsum[MAGIC.len() + 12] ^= 1;
        assert_eq!(
            Snapshot::from_bytes(&badsum).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        // Wrong magic and wrong version are typed separately.
        let mut magic = clean.clone();
        magic[0] ^= 1;
        assert_eq!(
            Snapshot::from_bytes(&magic).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut ver = clean;
        ver[MAGIC.len()] = 99;
        assert_eq!(
            Snapshot::from_bytes(&ver).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    #[test]
    fn a_version_4_file_is_refused_even_when_otherwise_valid() {
        // The header sits outside the checksummed payload, so restamping
        // the version leaves a file that passes every other check. v5 is
        // the positional-metrics format, v6 the one whose per-process
        // slots held an RMR count, v7 the one whose fork points carried
        // a span id, v8 the one that ended in a termination graph: each
        // must be named as a version mismatch, not decoded into `Corrupt`.
        for old in [4u32, 5, 6, 7, 8] {
            let mut bytes = sample().to_bytes();
            assert_eq!(bytes[MAGIC.len()..MAGIC.len() + 4], VERSION.to_le_bytes());
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SnapshotError::BadVersion(old)
            );
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("ft_snap_test_{}", std::process::id()));
        let path = dir.join("ckpt.ftc");
        let s = sample();
        let bytes = s.write_atomic(&path).expect("write");
        assert_eq!(bytes, s.to_bytes().len() as u64);
        let got = Snapshot::read(&path).expect("read back");
        assert_eq!(got.meta, s.meta);
        assert_eq!(got.visited, s.visited);
        // Overwrite with a different snapshot: reader sees the new one.
        let mut s2 = s.clone();
        s2.base.states = 1000;
        s2.write_atomic(&path).expect("overwrite");
        assert_eq!(Snapshot::read(&path).expect("reread").base.states, 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::default();
        let got = Snapshot::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert!(got.forks.is_empty());
        assert!(got.visited.is_empty());
        assert_eq!(got.meta.engine, "");
        // Every counter zero: the named section is an empty list.
        assert_all_slots_eq(&got.metrics, &MetricsSnapshot::default());
    }
}
