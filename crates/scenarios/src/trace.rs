//! The kernel-trace format: a compact, versioned, checksummed encoding of
//! an application's full launch sequence.
//!
//! A trace captures everything the simulator needs to replay an
//! application bit-exactly: per-kernel launch records (dispatch geometry
//! and seed), the instruction stream (compute bursts, loads/stores,
//! waitcnts, barriers — the paper's instruction mix), loop/phase structure
//! (trip counts and per-wavefront jitter) and the address-stream
//! descriptors that parameterize memory behavior. `record → parse →
//! rebuild` reconstructs an [`App`] structurally equal to the original, so
//! a replayed trace produces the same simulation, bit for bit.
//!
//! Two encodings share one data model:
//!
//! * **binary** (`.pckt`) — the canonical interchange form: a varint-packed
//!   payload in the shared [`snapshot::envelope`] (`PCKT` magic, version,
//!   length, CRC-32). Every parse failure is a typed [`TraceError`] naming
//!   the offending byte offset and field — truncation, bit flips, future
//!   versions and out-of-range fields are all rejected before an [`App`]
//!   is built.
//! * **text** (`.pckt.txt`) — a line-oriented, human-authorable form with
//!   the same information content; [`parse_text`] reports the offending
//!   line and reason. All fields are integers, so the text round trip is
//!   as exact as the binary one.
//!
//! ## Versioning and compatibility
//!
//! [`VERSION`] identifies the payload layout. Parsers accept exactly the
//! versions they understand ([`SUPPORTED_VERSIONS`]) and reject anything
//! newer with [`EnvelopeError::UnsupportedVersion`] — a trace is a portable
//! artifact, so silent best-effort decoding of a future layout is never
//! acceptable. Layout changes bump [`VERSION`]; additive changes must
//! append (old parsers then reject on trailing bytes, which is the
//! intended failure mode for forward compatibility).

use gpu_sim::isa::Op;
use gpu_sim::kernel::{AddressPattern, App, Kernel, LoopInfo};
use snapshot::codec::Encoder;
use snapshot::envelope::{self, EnvelopeError, Fields};
use std::fmt;

/// Magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"PCKT";
/// Current payload-layout version written by [`record`].
pub const VERSION: u16 = 1;
/// Payload-layout versions this parser understands.
pub const SUPPORTED_VERSIONS: [u16; 1] = [1];
/// First line of every text-form trace.
pub const TEXT_HEADER: &str = "pckt-text v1";

/// Everything that can go wrong reading a trace. Every variant names the
/// location of the failure (byte offset for binary, line number for text)
/// so a bad trace is diagnosable from the message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The binary envelope or a payload field failed to decode.
    Envelope(EnvelopeError),
    /// A kernel decoded structurally but failed semantic validation
    /// (dangling branch target, undefined pattern/loop reference, empty
    /// dispatch).
    Invalid {
        /// The kernel that failed [`Kernel::validate`].
        kernel: String,
        /// The validation failure.
        reason: String,
    },
    /// A text-form trace failed to parse.
    Text {
        /// 1-based line number of the failure.
        line: usize,
        /// Why the line was rejected.
        reason: String,
    },
}

impl From<EnvelopeError> for TraceError {
    fn from(e: EnvelopeError) -> Self {
        TraceError::Envelope(e)
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Envelope(e) => write!(f, "kernel trace: {e}"),
            TraceError::Invalid { kernel, reason } => {
                write!(f, "kernel `{kernel}` failed validation: {reason}")
            }
            TraceError::Text { line, reason } => write!(f, "text trace line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Recording (App → bytes)
// ---------------------------------------------------------------------------

/// Serializes `app` to the canonical binary trace form.
///
/// Recording is total: every [`App`] that passed [`App::new`] validation
/// encodes, and [`parse`] of the result reconstructs a structurally equal
/// app (pinned by the round-trip tests over the whole Table II suite).
pub fn record(app: &App) -> Vec<u8> {
    let mut payload = Encoder::new();
    payload.put_str(&app.name);
    payload.put_usize(app.kernels.len());
    for k in &app.kernels {
        payload.put_str(&k.name);
        payload.put_u32(k.workgroups);
        payload.put_u8(k.wg_wavefronts);
        payload.put_u64(k.seed);
        payload.put_usize(k.patterns.len());
        for p in &k.patterns {
            encode_pattern(&mut payload, p);
        }
        payload.put_usize(k.loops.len());
        for l in &k.loops {
            payload.put_u16(l.trips);
            payload.put_u16(l.jitter);
        }
        payload.put_usize(k.code.len());
        for op in &k.code {
            encode_op(&mut payload, op);
        }
    }
    envelope::seal(MAGIC, VERSION, &payload.into_bytes())
}

fn encode_pattern(w: &mut Encoder, p: &AddressPattern) {
    match *p {
        AddressPattern::Stream { base, region } => {
            w.put_u8(0);
            w.put_u64(base);
            w.put_u64(region);
        }
        AddressPattern::Tile { base, tile } => {
            w.put_u8(1);
            w.put_u64(base);
            w.put_u64(tile);
        }
        AddressPattern::Random { base, region } => {
            w.put_u8(2);
            w.put_u64(base);
            w.put_u64(region);
        }
        AddressPattern::Shared { base, region } => {
            w.put_u8(3);
            w.put_u64(base);
            w.put_u64(region);
        }
        AddressPattern::Strided { base, stride, region } => {
            w.put_u8(4);
            w.put_u64(base);
            w.put_u64(stride);
            w.put_u64(region);
        }
    }
}

fn encode_op(w: &mut Encoder, op: &Op) {
    match *op {
        Op::Valu { lat } => {
            w.put_u8(0);
            w.put_u8(lat);
        }
        Op::Salu => w.put_u8(1),
        Op::Load { pattern } => {
            w.put_u8(2);
            w.put_u16(pattern);
        }
        Op::Store { pattern } => {
            w.put_u8(3);
            w.put_u16(pattern);
        }
        Op::Waitcnt { vm, st } => {
            w.put_u8(4);
            w.put_u8(vm);
            w.put_u8(st);
        }
        Op::Barrier => w.put_u8(5),
        Op::Branch { target, slot } => {
            w.put_u8(6);
            w.put_u32(target);
            w.put_u8(slot);
        }
        Op::EndKernel => w.put_u8(7),
    }
}

// ---------------------------------------------------------------------------
// Parsing (bytes → App)
// ---------------------------------------------------------------------------

/// Upper bounds on record counts; a well-formed trace sits far below
/// these, so exceeding one is always corruption (or abuse), rejected with
/// a typed error naming the count field.
mod limits {
    /// Kernels per application.
    pub const KERNELS: usize = 4096;
    /// Address patterns per kernel.
    pub const PATTERNS: usize = u16::MAX as usize + 1;
    /// Loop-table entries per kernel.
    pub const LOOPS: usize = u8::MAX as usize + 1;
    /// Instructions per kernel.
    pub const CODE: usize = 1 << 20;
}

/// Parses the binary form back into an [`App`], validating the envelope
/// (magic, version, length, CRC), every field's range and finally each
/// kernel's semantic consistency.
///
/// # Errors
///
/// A [`TraceError`] naming the failure site; parsing never panics, for
/// any input whatsoever (pinned by the malformed-corpus tests).
pub fn parse(bytes: &[u8]) -> Result<App, TraceError> {
    // Traces have no payload cap beyond the header's u32 length field.
    parse_payload(envelope::open(bytes, MAGIC, &SUPPORTED_VERSIONS, usize::MAX)?)
}

fn parse_payload(payload: &[u8]) -> Result<App, TraceError> {
    let mut c = Fields::new(payload);
    let app_name = c.str("app.name", usize::MAX)?.to_string();
    let n_kernels = c.count("app.kernels", limits::KERNELS)?;
    if n_kernels == 0 {
        let why = "an application must launch at least one kernel";
        return Err(EnvelopeError::field("app.kernels", c.offset(), why).into());
    }
    let mut kernels = Vec::with_capacity(n_kernels);
    for _ in 0..n_kernels {
        kernels.push(parse_kernel(&mut c)?);
    }
    c.finish()?;
    App::new(app_name, kernels)
        .map_err(|reason| TraceError::Invalid { kernel: "<app>".into(), reason })
}

fn parse_kernel(c: &mut Fields<'_>) -> Result<Kernel, TraceError> {
    let name = c.str("kernel.name", usize::MAX)?.to_string();
    let workgroups = c.u32("kernel.workgroups")?;
    let wg_wavefronts = c.u8("kernel.wavefronts")?;
    let seed = c.u64("kernel.seed")?;
    let n_patterns = c.count("kernel.patterns", limits::PATTERNS)?;
    let mut patterns = Vec::with_capacity(n_patterns);
    for _ in 0..n_patterns {
        patterns.push(parse_pattern(c)?);
    }
    let n_loops = c.count("kernel.loops", limits::LOOPS)?;
    let mut loops = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        loops.push(LoopInfo { trips: c.u16("loop.trips")?, jitter: c.u16("loop.jitter")? });
    }
    let n_code = c.count("kernel.code", limits::CODE)?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        code.push(parse_op(c)?);
    }
    let k = Kernel { name, code, loops, patterns, workgroups, wg_wavefronts, seed };
    k.validate().map_err(|reason| TraceError::Invalid { kernel: k.name.clone(), reason })?;
    Ok(k)
}

fn parse_pattern(c: &mut Fields<'_>) -> Result<AddressPattern, EnvelopeError> {
    let at = c.offset();
    let tag = c.u8("pattern.tag")?;
    Ok(match tag {
        0 => AddressPattern::Stream {
            base: c.u64("pattern.base")?,
            region: c.u64("pattern.region")?,
        },
        1 => AddressPattern::Tile { base: c.u64("pattern.base")?, tile: c.u64("pattern.tile")? },
        2 => AddressPattern::Random {
            base: c.u64("pattern.base")?,
            region: c.u64("pattern.region")?,
        },
        3 => AddressPattern::Shared {
            base: c.u64("pattern.base")?,
            region: c.u64("pattern.region")?,
        },
        4 => AddressPattern::Strided {
            base: c.u64("pattern.base")?,
            stride: c.u64("pattern.stride")?,
            region: c.u64("pattern.region")?,
        },
        t => {
            let why = format!("unknown address-pattern tag {t} (valid: 0..=4)");
            return Err(EnvelopeError::field("pattern.tag", at, why));
        }
    })
}

fn parse_op(c: &mut Fields<'_>) -> Result<Op, EnvelopeError> {
    let at = c.offset();
    let tag = c.u8("op.tag")?;
    Ok(match tag {
        0 => {
            let lat = c.u8("op.valu.lat")?;
            if lat == 0 {
                return Err(EnvelopeError::field("op.valu.lat", at, "VALU latency must be >= 1"));
            }
            Op::Valu { lat }
        }
        1 => Op::Salu,
        2 => Op::Load { pattern: c.u16("op.load.pattern")? },
        3 => Op::Store { pattern: c.u16("op.store.pattern")? },
        4 => Op::Waitcnt { vm: c.u8("op.wait.vm")?, st: c.u8("op.wait.st")? },
        5 => Op::Barrier,
        6 => Op::Branch { target: c.u32("op.branch.target")?, slot: c.u8("op.branch.slot")? },
        7 => Op::EndKernel,
        t => {
            let why = format!("unknown opcode tag {t} (valid: 0..=7)");
            return Err(EnvelopeError::field("op.tag", at, why));
        }
    })
}

// ---------------------------------------------------------------------------
// Header peeking (for `trace ls`)
// ---------------------------------------------------------------------------

/// Summary of a trace file's envelope and payload, without building the
/// [`App`] (used by `repro trace ls`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Payload-layout version from the header.
    pub version: u16,
    /// Application name.
    pub app: String,
    /// Number of kernel launches.
    pub kernels: usize,
    /// Total instructions across all kernels' code objects.
    pub code_len: usize,
    /// Total encoded size, bytes.
    pub bytes: usize,
}

/// Parses just enough of a binary trace to describe it.
///
/// # Errors
///
/// The same envelope/field errors as [`parse`] (the whole payload is
/// still walked, so corruption anywhere is reported).
pub fn info(bytes: &[u8]) -> Result<TraceInfo, TraceError> {
    let app = parse(bytes)?;
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("parse validated the header"));
    Ok(TraceInfo {
        version,
        app: app.name.clone(),
        kernels: app.kernels.len(),
        code_len: app.kernels.iter().map(Kernel::len).sum(),
        bytes: bytes.len(),
    })
}

// ---------------------------------------------------------------------------
// Text form
// ---------------------------------------------------------------------------

/// Renders `app` in the line-oriented text form.
///
/// # Errors
///
/// Names must be single whitespace-free tokens in the text form; an app
/// or kernel name containing whitespace (or empty) is reported rather
/// than silently mangled. Use the binary form for arbitrary names.
pub fn render_text(app: &App) -> Result<String, TraceError> {
    let check = |name: &str, what: &str| -> Result<(), TraceError> {
        if name.is_empty() || name.chars().any(char::is_whitespace) {
            return Err(TraceError::Text {
                line: 0,
                reason: format!("{what} name `{name}` is not a single token; use the binary form"),
            });
        }
        Ok(())
    };
    check(&app.name, "app")?;
    let mut out = String::new();
    out.push_str(TEXT_HEADER);
    out.push('\n');
    out.push_str(&format!("app {}\n", app.name));
    for k in &app.kernels {
        check(&k.name, "kernel")?;
        out.push_str(&format!(
            "kernel {} workgroups={} wavefronts={} seed={:#x}\n",
            k.name, k.workgroups, k.wg_wavefronts, k.seed
        ));
        for p in &k.patterns {
            out.push_str(&match *p {
                AddressPattern::Stream { base, region } => {
                    format!("pattern stream base={base:#x} region={region}\n")
                }
                AddressPattern::Tile { base, tile } => {
                    format!("pattern tile base={base:#x} tile={tile}\n")
                }
                AddressPattern::Random { base, region } => {
                    format!("pattern random base={base:#x} region={region}\n")
                }
                AddressPattern::Shared { base, region } => {
                    format!("pattern shared base={base:#x} region={region}\n")
                }
                AddressPattern::Strided { base, stride, region } => {
                    format!("pattern strided base={base:#x} stride={stride} region={region}\n")
                }
            });
        }
        for l in &k.loops {
            out.push_str(&format!("loop trips={} jitter={}\n", l.trips, l.jitter));
        }
        for op in &k.code {
            out.push_str(&match *op {
                Op::Valu { lat } => format!("op valu {lat}\n"),
                Op::Salu => "op salu\n".to_string(),
                Op::Load { pattern } => format!("op load {pattern}\n"),
                Op::Store { pattern } => format!("op store {pattern}\n"),
                Op::Waitcnt { vm, st } => format!("op wait vm={vm} st={st}\n"),
                Op::Barrier => "op barrier\n".to_string(),
                Op::Branch { target, slot } => format!("op branch target={target} slot={slot}\n"),
                Op::EndKernel => "op end\n".to_string(),
            });
        }
    }
    Ok(out)
}

/// Parses the text form back into an [`App`]. Strict: unknown directives,
/// missing attributes, out-of-range values and misplaced lines are all
/// typed errors naming the 1-based line.
///
/// # Errors
///
/// [`TraceError::Text`] with the offending line, or [`TraceError::Invalid`]
/// when a structurally parsed kernel fails semantic validation.
pub fn parse_text(text: &str) -> Result<App, TraceError> {
    struct PendingKernel {
        name: String,
        workgroups: u32,
        wg_wavefronts: u8,
        seed: u64,
        patterns: Vec<AddressPattern>,
        loops: Vec<LoopInfo>,
        code: Vec<Op>,
    }
    fn finish(k: PendingKernel) -> Result<Kernel, TraceError> {
        let k = Kernel {
            name: k.name,
            code: k.code,
            loops: k.loops,
            patterns: k.patterns,
            workgroups: k.workgroups,
            wg_wavefronts: k.wg_wavefronts,
            seed: k.seed,
        };
        k.validate().map_err(|reason| TraceError::Invalid { kernel: k.name.clone(), reason })?;
        Ok(k)
    }

    let err = |line: usize, reason: String| TraceError::Text { line, reason };
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(err(1, "empty input (expected header line)".into()));
    };
    if header.trim() != TEXT_HEADER {
        return Err(err(1, format!("bad header `{}` (expected `{TEXT_HEADER}`)", header.trim())));
    }
    let mut app_name: Option<String> = None;
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut cur: Option<PendingKernel> = None;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = tokens.collect();
        match directive {
            "app" => {
                if app_name.is_some() {
                    return Err(err(line_no, "duplicate `app` directive".into()));
                }
                let [name] = rest[..] else {
                    return Err(err(line_no, "expected `app <name>`".into()));
                };
                app_name = Some(name.to_string());
            }
            "kernel" => {
                if app_name.is_none() {
                    return Err(err(line_no, "`kernel` before `app`".into()));
                }
                if let Some(k) = cur.take() {
                    kernels.push(finish(k)?);
                }
                let (name, attrs) = rest
                    .split_first()
                    .ok_or_else(|| err(line_no, "expected `kernel <name> <attrs>`".into()))?;
                let kv = parse_attrs(attrs, line_no, &["workgroups", "wavefronts", "seed"])?;
                cur = Some(PendingKernel {
                    name: name.to_string(),
                    workgroups: int_attr(&kv, "workgroups", line_no)?,
                    wg_wavefronts: int_attr(&kv, "wavefronts", line_no)?,
                    seed: int_attr(&kv, "seed", line_no)?,
                    patterns: Vec::new(),
                    loops: Vec::new(),
                    code: Vec::new(),
                });
            }
            "pattern" => {
                let k = cur
                    .as_mut()
                    .ok_or_else(|| err(line_no, "`pattern` outside a kernel".into()))?;
                let (kind, attrs) = rest
                    .split_first()
                    .ok_or_else(|| err(line_no, "expected `pattern <kind> <attrs>`".into()))?;
                let p = match *kind {
                    "stream" => {
                        let kv = parse_attrs(attrs, line_no, &["base", "region"])?;
                        AddressPattern::Stream {
                            base: int_attr(&kv, "base", line_no)?,
                            region: int_attr(&kv, "region", line_no)?,
                        }
                    }
                    "tile" => {
                        let kv = parse_attrs(attrs, line_no, &["base", "tile"])?;
                        AddressPattern::Tile {
                            base: int_attr(&kv, "base", line_no)?,
                            tile: int_attr(&kv, "tile", line_no)?,
                        }
                    }
                    "random" => {
                        let kv = parse_attrs(attrs, line_no, &["base", "region"])?;
                        AddressPattern::Random {
                            base: int_attr(&kv, "base", line_no)?,
                            region: int_attr(&kv, "region", line_no)?,
                        }
                    }
                    "shared" => {
                        let kv = parse_attrs(attrs, line_no, &["base", "region"])?;
                        AddressPattern::Shared {
                            base: int_attr(&kv, "base", line_no)?,
                            region: int_attr(&kv, "region", line_no)?,
                        }
                    }
                    "strided" => {
                        let kv = parse_attrs(attrs, line_no, &["base", "stride", "region"])?;
                        AddressPattern::Strided {
                            base: int_attr(&kv, "base", line_no)?,
                            stride: int_attr(&kv, "stride", line_no)?,
                            region: int_attr(&kv, "region", line_no)?,
                        }
                    }
                    other => {
                        return Err(err(line_no, format!("unknown pattern kind `{other}`")));
                    }
                };
                k.patterns.push(p);
            }
            "loop" => {
                let k =
                    cur.as_mut().ok_or_else(|| err(line_no, "`loop` outside a kernel".into()))?;
                let kv = parse_attrs(&rest, line_no, &["trips", "jitter"])?;
                k.loops.push(LoopInfo {
                    trips: int_attr(&kv, "trips", line_no)?,
                    jitter: int_attr(&kv, "jitter", line_no)?,
                });
            }
            "op" => {
                let k = cur.as_mut().ok_or_else(|| err(line_no, "`op` outside a kernel".into()))?;
                let (mnemonic, operands) = rest
                    .split_first()
                    .ok_or_else(|| err(line_no, "expected `op <mnemonic> ...`".into()))?;
                let op = match (*mnemonic, operands) {
                    ("valu", [lat]) => Op::Valu { lat: parse_int(lat, "lat", line_no)? },
                    ("salu", []) => Op::Salu,
                    ("load", [p]) => Op::Load { pattern: parse_int(p, "pattern", line_no)? },
                    ("store", [p]) => Op::Store { pattern: parse_int(p, "pattern", line_no)? },
                    ("wait", attrs) => {
                        let kv = parse_attrs(attrs, line_no, &["vm", "st"])?;
                        Op::Waitcnt {
                            vm: int_attr(&kv, "vm", line_no)?,
                            st: int_attr(&kv, "st", line_no)?,
                        }
                    }
                    ("barrier", []) => Op::Barrier,
                    ("branch", attrs) => {
                        let kv = parse_attrs(attrs, line_no, &["target", "slot"])?;
                        Op::Branch {
                            target: int_attr(&kv, "target", line_no)?,
                            slot: int_attr(&kv, "slot", line_no)?,
                        }
                    }
                    ("end", []) => Op::EndKernel,
                    (m, _) => {
                        return Err(err(
                            line_no,
                            format!("unknown or malformed op `{m}` with operands {operands:?}"),
                        ));
                    }
                };
                k.code.push(op);
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }
    if let Some(k) = cur.take() {
        kernels.push(finish(k)?);
    }
    let name = app_name.ok_or_else(|| err(1, "missing `app` directive".into()))?;
    App::new(name, kernels).map_err(|reason| TraceError::Invalid { kernel: "<app>".into(), reason })
}

/// Splits `key=value` attribute tokens, requiring exactly `expected` keys.
fn parse_attrs<'a>(
    tokens: &[&'a str],
    line: usize,
    expected: &[&'static str],
) -> Result<Vec<(&'static str, &'a str)>, TraceError> {
    let mut out: Vec<(&'static str, &'a str)> = Vec::with_capacity(expected.len());
    for t in tokens {
        let Some((k, v)) = t.split_once('=') else {
            return Err(TraceError::Text {
                line,
                reason: format!("expected key=value, got `{t}`"),
            });
        };
        let Some(&known) = expected.iter().find(|&&e| e == k) else {
            return Err(TraceError::Text {
                line,
                reason: format!("unknown attribute `{k}` (expected {expected:?})"),
            });
        };
        if out.iter().any(|&(seen, _)| seen == known) {
            return Err(TraceError::Text { line, reason: format!("duplicate attribute `{k}`") });
        }
        out.push((known, v));
    }
    if out.len() != expected.len() {
        return Err(TraceError::Text {
            line,
            reason: format!("missing attribute(s): expected {expected:?}"),
        });
    }
    Ok(out)
}

fn int_attr<T: TryFrom<u64>>(
    kv: &[(&'static str, &str)],
    key: &'static str,
    line: usize,
) -> Result<T, TraceError> {
    let (_, raw) = kv.iter().find(|&&(k, _)| k == key).expect("parse_attrs enforced presence");
    parse_int(raw, key, line)
}

/// Parses a decimal or `0x`-prefixed integer, range-checked into `T`.
fn parse_int<T: TryFrom<u64>>(raw: &str, field: &str, line: usize) -> Result<T, TraceError> {
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse::<u64>()
    };
    let v = parsed.map_err(|_| TraceError::Text {
        line,
        reason: format!("`{raw}` is not an integer (field {field})"),
    })?;
    T::try_from(v).map_err(|_| TraceError::Text {
        line,
        reason: format!("{field}={v} out of range for the field's width"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::KernelBuilder;

    fn sample_app() -> App {
        let mut b = KernelBuilder::new("k0", 8, 2, 0xABCD);
        let p = b.pattern(AddressPattern::Strided { base: 0x1000, stride: 128, region: 1 << 16 });
        b.begin_loop(5, 1);
        b.load(p);
        b.wait_all_loads();
        b.valu(2, 4);
        b.store(p);
        b.end_loop();
        b.waitcnt_st(0);
        let k0 = b.finish();
        let mut b = KernelBuilder::new("k1", 4, 4, 0xEF01);
        let p = b.pattern(AddressPattern::Shared { base: 0x8000, region: 1 << 14 });
        b.load(p);
        b.wait_all_loads();
        b.barrier();
        b.salu(3);
        let k1 = b.finish();
        App::new("sample", vec![k0, k1]).expect("sample app is valid")
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let app = sample_app();
        let bytes = record(&app);
        let back = parse(&bytes).expect("round trip parses");
        assert_eq!(back, app);
        // Re-recording the rebuilt app is byte-identical.
        assert_eq!(record(&back), bytes);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let app = sample_app();
        let text = render_text(&app).expect("token names render");
        let back = parse_text(&text).expect("text parses");
        assert_eq!(back, app);
    }

    #[test]
    fn info_summarizes_without_loss() {
        let app = sample_app();
        let bytes = record(&app);
        let i = info(&bytes).expect("info parses");
        assert_eq!(i.app, "sample");
        assert_eq!(i.kernels, 2);
        assert_eq!(i.version, VERSION);
        assert_eq!(i.bytes, bytes.len());
    }

    #[test]
    fn text_errors_name_the_line() {
        let text =
            format!("{TEXT_HEADER}\napp a\nkernel k workgroups=1 wavefronts=1 seed=0\nop bogus\n");
        let e = parse_text(&text).unwrap_err();
        assert!(matches!(e, TraceError::Text { line: 4, .. }), "{e}");
    }

    #[test]
    fn text_rejects_out_of_range_width() {
        let text =
            format!("{TEXT_HEADER}\napp a\nkernel k workgroups=1 wavefronts=900 seed=0\nop end\n");
        let e = parse_text(&text).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }
}
