//! Structured observability: typed event records and pluggable recorders.
//!
//! Every instrumented component (power monitor, serial transactions, node
//! state machines, the pipeline itself) emits [`TraceRecord`]s through a
//! [`Recorder`]. Three implementations cover the workspace's needs:
//!
//! * [`NullRecorder`] — the default; `enabled()` is `false`, so emit sites
//!   skip even building the record (zero overhead on long discharge runs);
//! * [`MemoryRecorder`] — collects records in memory; the timeline
//!   generator rebuilds the paper's Figs. 2/3/9 from this stream;
//! * [`JsonlRecorder`] — streams one JSON object per line to a writer;
//!   with a fixed seed the byte stream is identical run-to-run, making
//!   traces golden artifacts for regression testing.
//!
//! The JSONL schema per line, keys always in this order:
//!
//! ```json
//! {"t_us": 2300000, "component": "node1", "kind": "state_transition",
//!  "mode": "computation", "freq_mhz": 103.2, "current_ma": 67.9}
//! ```
//!
//! `t_us` is the simulation clock in microseconds; `component` tags the
//! emitter (`node1`, `host->node1`, `pipeline`); `kind` names the event
//! type; every following key is event-specific, written in emit order.
//!
//! The kinds and their fields are declared once, in the `trace_kinds!`
//! table below: one struct per kind ([`StateTransition`], [`Transaction`],
//! …) and the [`SCHEMA`] describing them. Records are built only through
//! those structs.

use crate::time::SimTime;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A single typed field value in a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl fmt::Display for FieldValue {
    /// JSON-compatible rendering (strings escaped and quoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) if v.is_finite() => write!(f, "{v}"),
            FieldValue::F64(_) => write!(f, "null"),
            FieldValue::Str(s) => write_json_str(f, s),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Write `s` as a JSON string literal into any [`fmt::Write`] sink —
/// `Formatter`s (the `Display` impls) and plain `String` buffers (the
/// buffered [`JsonlRecorder`] path) alike, with no intermediate
/// allocation.
fn write_json_str<W: fmt::Write + ?Sized>(f: &mut W, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Value class of a declared trace field, spelled as in
/// `trace_schema.json` and README's trace-schema table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    Int,
    Float,
    Str,
    Bool,
}

impl FieldClass {
    pub fn as_str(self) -> &'static str {
        match self {
            FieldClass::Int => "int",
            FieldClass::Float => "float",
            FieldClass::Str => "str",
            FieldClass::Bool => "bool",
        }
    }
}

/// One declared field of a trace kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    pub name: &'static str,
    pub class: FieldClass,
    /// Written on every record of the kind; optional fields only when set.
    pub required: bool,
}

/// One declared trace kind: its `kind` tag and fields in emit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSpec {
    pub kind: &'static str,
    pub fields: &'static [FieldSpec],
}

/// The scalar types a trace field may hold.
trait Scalar: Into<FieldValue> {
    const CLASS: FieldClass;
}
impl Scalar for u64 {
    const CLASS: FieldClass = FieldClass::Int;
}
impl Scalar for f64 {
    const CLASS: FieldClass = FieldClass::Float;
}
impl Scalar for bool {
    const CLASS: FieldClass = FieldClass::Bool;
}
impl Scalar for &str {
    const CLASS: FieldClass = FieldClass::Str;
}

/// A declared field's type: a bare scalar is required, `Option` of one is
/// optional and written only when `Some`.
trait FieldType {
    const CLASS: FieldClass;
    const REQUIRED: bool;
    fn append(self, rec: TraceRecord, name: &'static str) -> TraceRecord;
}
impl<T: Scalar> FieldType for T {
    const CLASS: FieldClass = T::CLASS;
    const REQUIRED: bool = true;
    fn append(self, rec: TraceRecord, name: &'static str) -> TraceRecord {
        rec.with(name, self)
    }
}
impl<T: Scalar> FieldType for Option<T> {
    const CLASS: FieldClass = T::CLASS;
    const REQUIRED: bool = false;
    fn append(self, rec: TraceRecord, name: &'static str) -> TraceRecord {
        match self {
            Some(v) => rec.with(name, v),
            None => rec,
        }
    }
}

/// Declares the trace kinds: one struct per kind, whose fields are the
/// record's fields in emit order, plus the [`SCHEMA`] table describing
/// them all. A record can only be built through these structs, so an
/// undeclared kind, a misspelled field, a wrong value type or a missing
/// required field does not compile.
macro_rules! trace_kinds {
    ($(
        $(#[$meta:meta])*
        $name:ident $(<$lt:lifetime>)? = $kind:literal {
            $($field:ident: $ty:ty),* $(,)?
        }
    )*) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq)]
            pub struct $name $(<$lt>)? {
                $(pub $field: $ty,)*
            }

            impl $(<$lt>)? $name $(<$lt>)? {
                /// The declared fields, in emit order.
                pub const FIELDS: &'static [FieldSpec] = &[$(FieldSpec {
                    name: stringify!($field),
                    class: <$ty as FieldType>::CLASS,
                    required: <$ty as FieldType>::REQUIRED,
                }),*];

                /// The record emitted at `time` by `component`.
                pub fn into_record(self, time: SimTime, component: impl Into<String>) -> TraceRecord {
                    let mut rec = TraceRecord::new(time, component, $kind);
                    rec.fields.reserve_exact(Self::FIELDS.len());
                    $(rec = self.$field.append(rec, stringify!($field));)*
                    rec
                }
            }
        )*

        /// Every declared trace kind, sorted by kind: the source of
        /// `trace_schema.json` and README's trace-schema table.
        pub static SCHEMA: &[KindSpec] = &[$(KindSpec {
            kind: $kind,
            fields: $name::FIELDS,
        }),*];
    };
}

trace_kinds! {
    /// A link fault or a node brownout. Link faults carry the transfer
    /// (`from` … `bytes`) and the fault's detail (`flipped_bits` for
    /// `bit_error`, `delay_us` for `delay`); brownouts carry `duration_us`.
    FaultInjected<'a> = "fault_injected" {
        from: Option<&'a str>,
        to: Option<&'a str>,
        frame: Option<u64>,
        bytes: Option<u64>,
        fault: &'a str,
        flipped_bits: Option<u64>,
        delay_us: Option<u64>,
        duration_us: Option<u64>,
    }
    /// A frame's result reached the host.
    FrameComplete = "frame_complete" {
        frame: u64,
        latency_s: f64,
        deadline_missed: bool,
    }
    /// One endpoint's side of a transfer (`dir` is `send` or `recv`).
    Io<'a> = "io" {
        dir: &'a str,
        payload: &'a str,
        frame: u64,
    }
    /// A survivor absorbed its dead neighbour's share.
    Migration<'a> = "migration" {
        dead: &'a str,
        merged_freq_mhz: f64,
        feasible: bool,
    }
    /// A node's battery is exhausted.
    NodeDeath = "node_death" {
        delivered_mah: f64,
        stranded_mah: f64,
    }
    /// A scheduling policy's rotation decision.
    PolicyDecision<'a> = "policy_decision" {
        policy: &'a str,
        frame: u64,
        skew_soc: f64,
        action: &'a str,
        next_period_frames: Option<u64>,
    }
    /// An interval of constant battery draw, stamped at its end.
    PowerSegment<'a> = "power_segment" {
        mode: &'a str,
        freq_mhz: f64,
        duration_us: u64,
        current_ma: f64,
        energy_mj: f64,
    }
    /// The pipeline rotated the node roles.
    Rotation = "rotation" {
        frame: u64,
        rotations: u64,
    }
    /// A node changed mode or DVS level; PROC starts add `share` and
    /// `frame`, local-loop iterations only `share`.
    StateTransition<'a> = "state_transition" {
        mode: &'a str,
        freq_mhz: f64,
        share: Option<u64>,
        frame: Option<u64>,
    }
    /// A link-level lifecycle event. Ack timeouts add the `waiter`,
    /// receive timeouts whether the upstream node is alive.
    Transaction<'a> = "transaction" {
        event: &'a str,
        payload: &'a str,
        bytes: u64,
        frame: u64,
        waiter: Option<&'a str>,
        upstream_alive: Option<bool>,
    }
}

/// One structured trace record: when, who, what, plus typed fields.
///
/// Records are built only through the declared kinds above, never field by
/// field outside this crate:
///
/// ```compile_fail
/// use dles_sim::{SimTime, TraceRecord};
/// let rec = TraceRecord::new(SimTime::ZERO, "node1", "made_up_kind");
/// ```
///
/// ```
/// use dles_sim::trace::Rotation;
/// use dles_sim::SimTime;
/// let rec = Rotation { frame: 10, rotations: 1 }.into_record(SimTime::ZERO, "pipeline");
/// assert_eq!(rec.u64_field("rotations"), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TraceRecord {
    pub time: SimTime,
    /// Component tag, e.g. `"node1"`, `"host"`, `"link0→1"`.
    pub component: String,
    /// Event type, e.g. `"state_transition"`, `"frame_complete"`.
    pub kind: &'static str,
    /// Event-specific fields, serialized in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    pub(crate) fn new(time: SimTime, component: impl Into<String>, kind: &'static str) -> Self {
        TraceRecord {
            time,
            component: component.into(),
            kind,
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style; order is preserved in the output).
    pub(crate) fn with(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Field as u64 if present and numeric.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Field as str if present and textual.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field as bool if present and boolean.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Write the canonical single-line JSON rendering (what
    /// [`JsonlRecorder`] writes) into a caller-supplied buffer. Keys in
    /// fixed order: `t_us`, `component`, `kind`, then the fields in emit
    /// order — so byte-identical inputs yield byte-identical lines. No
    /// intermediate `String`s: `component` and `kind` are escaped straight
    /// into `out`, which a streaming recorder reuses across records.
    pub fn write_jsonl<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        write!(out, "{{\"t_us\": {}", self.time.as_micros())?;
        out.write_str(", \"component\": ")?;
        write_json_str(out, &self.component)?;
        out.write_str(", \"kind\": ")?;
        write_json_str(out, self.kind)?;
        for (name, value) in &self.fields {
            write!(out, ", \"{name}\": {value}")?;
        }
        out.write_str("}")
    }

    /// [`Self::write_jsonl`] into a fresh `String`, for one-off callers.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        let _ = self.write_jsonl(&mut out);
        out
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<8} {}",
            format!("{}", self.time),
            self.component,
            self.kind
        )?;
        for (name, value) in &self.fields {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

/// Sink for trace records.
///
/// Emit sites guard with [`Recorder::enabled`] so a disabled recorder costs
/// one branch, not a record allocation.
pub trait Recorder {
    /// Whether records should be built and submitted at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one record.
    fn record(&mut self, record: TraceRecord);

    /// Drain buffered records, if this recorder keeps any (memory
    /// recorders do; streaming and null recorders return nothing).
    fn take_records(&mut self) -> Vec<TraceRecord> {
        Vec::new()
    }
}

/// The default recorder: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _record: TraceRecord) {}
}

/// Collects records in memory, in emission order.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    records: Vec<TraceRecord>,
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Streams records as JSON Lines to any writer (file, `Vec<u8>`, stdout).
pub struct JsonlRecorder {
    out: BufWriter<Box<dyn Write>>,
    /// Line buffer reused across records: each record is rendered into it
    /// with [`TraceRecord::write_jsonl`] and flushed as one `write_all`,
    /// so the per-record cost is formatting only, not allocation.
    buf: String,
    lines: u64,
}

impl JsonlRecorder {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Stream to an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write>) -> Self {
        JsonlRecorder {
            out: BufWriter::new(writer),
            buf: String::new(),
            lines: 0,
        }
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, record: TraceRecord) {
        self.buf.clear();
        let _ = record.write_jsonl(&mut self.buf);
        self.buf.push('\n');
        // I/O errors on a trace sink should not abort a multi-hour
        // simulation; the line count lets callers detect short writes.
        if self.out.write_all(self.buf.as_bytes()).is_ok() {
            self.lines += 1;
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecord {
        TraceRecord::new(SimTime::from_secs(2), "node1", "state_transition")
            .with("mode", "computation")
            .with("freq_mhz", 103.2)
            .with("frame", 7u64)
            .with("alive", true)
    }

    #[test]
    fn jsonl_has_fixed_key_order() {
        let line = sample().to_jsonl();
        assert_eq!(
            line,
            "{\"t_us\": 2000000, \"component\": \"node1\", \"kind\": \"state_transition\", \
             \"mode\": \"computation\", \"freq_mhz\": 103.2, \"frame\": 7, \"alive\": true}"
        );
    }

    #[test]
    fn string_fields_are_escaped() {
        let r = TraceRecord::new(SimTime::ZERO, "a\"b", "k").with("s", "x\ny\\");
        let line = r.to_jsonl();
        assert!(line.contains("\"a\\\"b\""));
        assert!(line.contains("\"x\\ny\\\\\""));
    }

    #[test]
    fn field_lookup() {
        let r = sample();
        assert_eq!(r.u64_field("frame"), Some(7));
        assert_eq!(r.str_field("mode"), Some("computation"));
        assert!(r.field("missing").is_none());
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(sample());
        assert!(r.take_records().is_empty());
    }

    #[test]
    fn memory_recorder_collects_and_drains() {
        let mut r = MemoryRecorder::new();
        assert!(r.enabled());
        r.record(sample());
        r.record(sample());
        assert_eq!(r.records().len(), 2);
        assert_eq!(r.take_records().len(), 2);
        assert!(r.records().is_empty());
    }

    #[test]
    fn jsonl_recorder_streams_lines() {
        // Write into a shared buffer via a small adapter.
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut rec = JsonlRecorder::to_writer(Box::new(buf.clone()));
            rec.record(sample());
            rec.record(sample());
            assert_eq!(rec.lines(), 2);
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        assert!(lines[0].starts_with("{\"t_us\": 2000000"));
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", sample());
        assert!(s.contains("node1") && s.contains("state_transition") && s.contains("frame=7"));
    }

    /// The pre-buffering rendering: a fresh `String` per record with the
    /// `component`/`kind` escaping routed through temporary [`FieldValue`]s
    /// — kept here as the byte-for-byte reference the buffered path must
    /// match.
    fn reference_jsonl(r: &TraceRecord) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"t_us\": {}", r.time.as_micros());
        let _ = write!(
            out,
            ", \"component\": {}",
            FieldValue::from(r.component.as_str())
        );
        let _ = write!(out, ", \"kind\": {}", FieldValue::from(r.kind));
        for (name, value) in &r.fields {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push('}');
        out
    }

    #[test]
    fn buffered_rendering_matches_reference_on_randomized_records() {
        use crate::rng::SimRng;
        // Pools exercising every value class and the string escapes, plus
        // the non-finite floats that must render as `null`.
        const KINDS: [&str; 4] = ["state_transition", "power_segment", "tx", "a\"b\\c"];
        const STRS: [&str; 5] = ["computation", "x\ny\\", "\"", "\t\r", ""];
        const FLOATS: [f64; 7] = [
            0.0,
            -1.5,
            103.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-12,
        ];
        let mut rng = SimRng::seed_from_u64(0xD015_D016);
        let mut buf = String::new();
        for i in 0..500 {
            let mut r = TraceRecord::new(
                SimTime::from_micros(rng.uniform_u64(0, 1 << 40)),
                STRS[rng.uniform_u64(0, STRS.len() as u64 - 1) as usize],
                KINDS[rng.uniform_u64(0, KINDS.len() as u64 - 1) as usize],
            );
            // 0..=6 fields — iteration 0 pins the empty-field-list case.
            let n_fields = if i == 0 { 0 } else { rng.uniform_u64(0, 6) };
            for _ in 0..n_fields {
                r = match rng.uniform_u64(0, 4) {
                    0 => r.with("u", rng.next_u64()),
                    1 => r.with("i", FieldValue::I64(-(rng.uniform_u64(0, 1 << 32) as i64))),
                    2 => r.with(
                        "f",
                        FLOATS[rng.uniform_u64(0, FLOATS.len() as u64 - 1) as usize],
                    ),
                    3 => r.with(
                        "s",
                        STRS[rng.uniform_u64(0, STRS.len() as u64 - 1) as usize],
                    ),
                    _ => r.with("b", rng.uniform_u64(0, 1) == 1),
                };
            }
            buf.clear();
            r.write_jsonl(&mut buf).unwrap();
            assert_eq!(buf, reference_jsonl(&r), "record #{i}: {r:?}");
            assert_eq!(r.to_jsonl(), buf, "to_jsonl delegates, record #{i}");
        }
    }
}
